"""The repository benchmark's own library (see ``perfbench/README.md``).

Everything here drives the simulator from outside: it imports the
``repro`` package from ``src/`` and times calls into its public
functions.  Nothing in this package is imported by ``repro``.
"""
