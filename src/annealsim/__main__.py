"""``python -m annealsim``: the command-line front end of :mod:`annealsim.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
