"""`python -m csfsim`: the csfsim command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
