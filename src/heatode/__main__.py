"""`python -m heatode`: the command-line interface, as the `heatode` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
