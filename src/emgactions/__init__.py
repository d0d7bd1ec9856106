"""Physical-action classification from multi-channel surface EMG recordings.

The package covers the full experiment pipeline: ingestion of raw text
recordings, per-trial feature extraction (time-domain statistics,
inter-channel correlation, log spectral moments, autoregressive band powers,
local binary patterns), a Parzen-kernel probabilistic classifier, greedy
forward feature selection, and stratified cross-validated evaluation with
accuracy and Cohen's kappa reporting.
"""

__version__ = "0.1.0"
