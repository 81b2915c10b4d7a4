"""`python -m wreathdet ...`: the same entry point as the `wreathdet` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
