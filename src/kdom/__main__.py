"""`python -m kdom`, the same command line as the `kdom` script."""
import sys

from .cli import main

sys.exit(main())
