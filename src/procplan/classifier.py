"""Task classifier: coarse task label from start and goal observations."""

from __future__ import annotations

import numpy as np

from .losses import cross_entropy
from .optim import ParamStore, adamw_step
from .tensor import Tensor, matmul, relu

HIDDEN_DIM = 256


class TaskClassifier:
    """Two-layer net over concat(o_s, o_g); argmax ties go to the lowest label."""

    def __init__(self, obs_dim: int, num_tasks: int, seed: int = 0):
        self.obs_dim = obs_dim
        self.num_tasks = num_tasks
        self.params = ParamStore()
        rng = np.random.default_rng(seed)
        d = 2 * obs_dim
        self.w1 = self.params.add(
            "classifier.w1", rng.standard_normal((d, HIDDEN_DIM)) * np.sqrt(2.0 / d)
        )
        self.b1 = self.params.add("classifier.b1", np.zeros(HIDDEN_DIM))
        self.w2 = self.params.add(
            "classifier.w2",
            rng.standard_normal((HIDDEN_DIM, num_tasks)) * np.sqrt(1.0 / HIDDEN_DIM),
        )
        self.b2 = self.params.add("classifier.b2", np.zeros(num_tasks))

    def logits(self, o_s: np.ndarray, o_g: np.ndarray) -> Tensor:
        x = np.concatenate([np.atleast_2d(o_s), np.atleast_2d(o_g)], axis=1)
        if x.shape[1] != 2 * self.obs_dim:
            raise ValueError(
                f"logits: expected observation dim {self.obs_dim}, got inputs of total dim {x.shape[1]}"
            )
        h = relu(matmul(Tensor(x), self.w1) + self.b1)
        return matmul(h, self.w2) + self.b2

    def predict_batch(self, o_s: np.ndarray, o_g: np.ndarray) -> np.ndarray:
        logits = self.logits(o_s, o_g).data
        return np.argmax(logits, axis=1)

    def train_step(
        self, o_s: np.ndarray, o_g: np.ndarray, labels, lr: float, weight_decay: float = 0.0
    ) -> float:
        loss = cross_entropy(self.logits(o_s, o_g), labels)
        self.params.zero_grads()
        loss.backward()
        adamw_step(self.params, lr=lr, weight_decay=weight_decay)
        return loss.item()
