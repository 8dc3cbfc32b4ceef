"""Entry point for ``python -m schurtrails``: the command line of schurtrails.cli."""

from .cli import main

if __name__ == "__main__":
    main()
