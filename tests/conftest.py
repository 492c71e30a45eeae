import importlib.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str, folder: str = "scripts"):
    """Import ``<folder>/<name>.py`` of the repository as the module ``name``, once."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(number: int, line: str) -> None:
    _ACCEPTANCE_LINES.append((number, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
