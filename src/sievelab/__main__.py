"""``python -m sievelab``: the command-line front end, as the sievelab script runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
