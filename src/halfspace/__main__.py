"""``python -m halfspace``: the command-line interface (``halfspace.cli``)."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
