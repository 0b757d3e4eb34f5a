"""Set-up probe, run in a fresh interpreter for each sample of ``setup_s``.

Imports the package as the ``eqreinvest`` command does (``cli`` pulls in
every layer), then loads and validates each config file named on the
command line. ``run.py`` times the whole process, interpreter start-up
included, since a user of the CLI pays all of it on every call.
"""

import sys

from eqreinvest import cli  # noqa: F401
from eqreinvest.config import load_config

for path in sys.argv[1:]:
    load_config(path)
