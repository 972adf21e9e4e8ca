"""CI's smoke tier: end-to-end runs at CI's own sizes, each driving
``repro.cli.main`` or the library with CI's arguments.  Every module
here is marked ``smoke``: the default run deselects them, and
``pytest -m smoke`` runs exactly them."""
