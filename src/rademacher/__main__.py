"""python -m rademacher: the same command line as the rademacher script."""

from .cli import main

if __name__ == "__main__":
    main()
