"""``python -m fwexact``: the command-line front end (:mod:`fwexact.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
