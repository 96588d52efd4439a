"""Link prediction on small graphs.

Local neighborhood similarity indices, the random-walk-with-restart global
index, and walk-based node embeddings with a logistic edge classifier, all
evaluated through a sampling AUC estimator and a paired repeated-partition
experiment harness.
"""

__version__ = "0.1.0"
