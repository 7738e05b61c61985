import sys
from pathlib import Path

# the library is used from the source tree, as the benchmark runs it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
