"""Hybrid-model differentially private heavy-hitter estimation.

Combines a trusted-curator pipeline over a small opt-in population
(noisy-threshold head-list construction plus Laplace-mechanism
probability estimation) with a local-model pipeline over the remaining
clients (two-stage randomized response, denoised server-side), and
fuses the two unbiased estimates with inverse-variance weights.

The package re-exports nothing; import its modules (`hybridhh.harness`,
`hybridhh.client`, ...) directly.
"""

__version__ = "0.1.0"
