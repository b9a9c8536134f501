"""``python -m maxwell2d``: the command line, as the ``maxwell2d`` script."""
from .cli import main

if __name__ == "__main__":
    main()
