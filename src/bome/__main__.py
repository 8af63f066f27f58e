"""``python -m bome``: the same command line as the ``bome`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
