"""python -m borelpoints runs the command-line interface (borelpoints.cli)."""

from .cli import run

if __name__ == "__main__":
    run()
