import os

# pyproject's pythonpath covers this process; child interpreters that the
# tests start (python -m tubecalc) find the package through PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
