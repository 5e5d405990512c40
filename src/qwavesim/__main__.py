"""Entry point for ``python -m qwavesim``."""
from .cli import main

raise SystemExit(main())
