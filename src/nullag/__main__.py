"""`python -m nullag`: the command-line interface of `nullag.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
