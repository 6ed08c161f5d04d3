"""The repository benchmark (see ../README.md and /BENCHMARK.json).

Everything here measures the program from outside: it imports only public
names from ``repro.*`` and nothing from the other ``benchmarks/*.py``.
"""
