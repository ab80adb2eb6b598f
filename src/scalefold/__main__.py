"""`python -m scalefold`: the `scalefold` command line (see `cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
