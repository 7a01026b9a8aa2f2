import importlib
import pkgutil
import re
from pathlib import Path

import cavgate


def test_every_exported_name_exists():
    # a stale __all__ entry breaks `from cavgate.<module> import *`
    missing = []
    for info in pkgutil.iter_modules(cavgate.__path__):
        module = importlib.import_module(f"cavgate.{info.name}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


README = Path(__file__).resolve().parent.parent / "README.md"

# what README's `build_generator_*` stands for
GENERATOR_BUILDERS = ("build_generator_lambda", "build_generator_raman",
                      "build_generator_effective", "build_generator_shelving")


def test_readme_names_only_what_the_package_root_exports():
    sentence = re.search(r"Lower-level pieces \((.*?)\) are exported from the package root",
                         README.read_text(), re.S)
    assert sentence is not None, "README no longer lists the lower-level pieces"
    names = []
    for name in re.findall(r"`([^`]+)`", sentence.group(1)):
        names += GENERATOR_BUILDERS if name == "build_generator_*" else [name]
    assert len(names) >= len(GENERATOR_BUILDERS) + 1
    assert [name for name in names if not hasattr(cavgate, name)] == []


def test_readme_library_quickstart_runs(capsys):
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README no longer has a python quickstart block"
    exec(compile(block.group(1), "README quickstart", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
