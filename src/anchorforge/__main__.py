"""``python -m anchorforge``: the same command line as the console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
