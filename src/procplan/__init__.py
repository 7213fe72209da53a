"""Procedure planning with latent-constrained action diffusion.

A desk-scale, end-to-end stack: a small reverse-mode autodiff engine, a
synthetic instructional-video corpus with curation rules, a state
autoencoder whose latent codes steer a conditional denoising diffusion
sampler over discrete action sequences, a task classifier, sequence
metrics, and a training/evaluation pipeline with a CLI.
"""

__version__ = "0.1.0"

# The environment variables that set BLAS's thread count, read when numpy
# loads it.  Kept here, free of numpy, so the CLI can set them first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
