import os

# one BLAS thread, as the benchmark runs: the small sector matrices of the
# propagator are many times slower when BLAS splits them over threads.
# Set before any test module imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
