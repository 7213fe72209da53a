"""Procedure planning with latent-constrained action diffusion.

A desk-scale, end-to-end stack: a small reverse-mode autodiff engine, a
synthetic instructional-video corpus with curation rules, a state
autoencoder whose latent codes steer a conditional denoising diffusion
sampler over discrete action sequences, a task classifier, sequence
metrics, and a training/evaluation pipeline with a CLI.
"""

import os

__version__ = "0.1.0"

# The environment variables that set BLAS's thread count, read when numpy
# loads it.  Kept here, free of numpy, so the CLI can set them first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def atomic_write(path: str, payload: bytes | str) -> None:
    """Write every artifact whole or not at all, creating its directory: the
    payload (text as UTF-8) goes to a temporary file beside ``path``, which
    is renamed into place once written."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
