"""`python -m trgeo` and the `trgeo` script: cli.main on one BLAS thread, a
count fixed before numpy is imported (the package's __init__ imports none)."""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from .cli import main as run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
