"""ivmbench: the repo's one end-to-end + per-layer benchmark (see README.md).

Everything here drives ``repro`` through its public API only and lives
outside ``src/``: workload generation, the served-process launcher, the
span recorder and its layer table, the interpreter oracle and the result
tooling.  ``run.py`` is the entry point.
"""
