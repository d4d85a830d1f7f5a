"""`python -m liecontact`, and the `liecontact` console script (`entry`)."""

import gc
import sys

from .cli import main


def entry() -> int:
    """`cli.main`, then gc.freeze(), so that the collections of interpreter
    finalization skip the finished run. `cli.main` never freezes: callers
    in process keep a collectable heap."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
