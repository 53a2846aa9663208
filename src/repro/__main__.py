"""``python -m repro`` — see :mod:`repro.cli`."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
