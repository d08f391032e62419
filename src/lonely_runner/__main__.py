"""``python -m lonely_runner`` entry point."""

from .cli import main

raise SystemExit(main())
