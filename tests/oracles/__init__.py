"""Frozen scalar reference loops the batched engines are proven against.

Each module keeps the original one-trial / one-cell / one-access loop of
a product engine, logic unchanged.  The equivalence tests compare the
engines against them and the benchmarks time them as the speedup
baseline; nothing under ``src/`` imports them.
"""
