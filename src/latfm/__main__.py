"""`python -m latfm`: the `latfm` command from a checkout or an install."""

from .cli import main

if __name__ == "__main__":
    main()
