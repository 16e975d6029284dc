"""`python -m hopflinks ...` runs the command line, as the `hopflinks` script does."""

from .cli import run

if __name__ == "__main__":
    run()
