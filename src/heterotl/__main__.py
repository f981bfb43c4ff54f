"""`python -m heterotl`: the same command line as the heterotl script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
