"""``python -m stepcross``: the same command line as the ``stepcross`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
