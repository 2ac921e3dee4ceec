"""Guards on the package source itself."""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfold"

# NumPy's extended-precision types are plain float64 on Windows and on
# macOS arm64, so numerics that use them give different results per platform
PLATFORM_FLOAT_NAMES = {"longdouble", "float128", "longfloat"}


def test_source_uses_no_platform_dependent_float_type():
    found = []
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME and token.string in PLATFORM_FLOAT_NAMES:
                    found.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert found == []
