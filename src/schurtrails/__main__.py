"""Entry point for ``python -m schurtrails``: the click command line."""

from .cli import main

if __name__ == "__main__":
    main()
