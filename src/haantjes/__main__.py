"""The command line as ``python -m haantjes check|fmt ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
