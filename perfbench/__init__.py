"""The repo benchmark (see run.py)."""
