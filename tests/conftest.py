import os

# Single-threaded BLAS: the suite works on many small matrices, where thread
# fan-out costs far more than it saves.  Set before numpy spins up its pools.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
