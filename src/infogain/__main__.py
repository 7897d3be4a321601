import sys

from .cmdline import main

if __name__ == "__main__":
    sys.exit(main())
