"""``python -m weylflow``: the same process entry as the ``weylflow`` script.

``cli.run`` runs the command and freezes the heap before the process ends,
so the interpreter's exit-time collections skip the objects the command
left alive (see its docstring).
"""

from .cli import run

if __name__ == "__main__":
    run()
