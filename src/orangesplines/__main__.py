"""``python -m orangesplines``: the command line."""

from .cli import main

raise SystemExit(main())
