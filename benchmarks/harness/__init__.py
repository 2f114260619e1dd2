"""The repository's benchmark: see README.md; ``run.py`` is the command."""
