"""``python -m qnet <command> ...``: the same CLI as the ``qnet`` script."""

import sys

from .cli import main

sys.exit(main())
