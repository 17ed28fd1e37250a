"""`python3 -m jugglemc ...` runs the command line of `jugglemc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
