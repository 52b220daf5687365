"""README.md names the package's attributes as `module.name` in its code
spans; each name must exist in its module, so that deleting or renaming an
attribute fails here until the README follows."""

import importlib
import re
from pathlib import Path

import numpy as np

from rdcn_throughput.topology import Topology, synthesize_schedule

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("flowlp", "evaluation", "topology", "demand", "decomposition", "cli")
# `module.suffix` of a file name, such as topology.json, names no attribute
FILE_SUFFIXES = {"csv", "json", "svg"}


def readme_references() -> set:
    """The (module, name) of every `module.name` in README's inline code spans;
    not one preceded by a name, a dot or a slash, as in rdcn_throughput.cli."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    reference = re.compile(rf"(?<![\w./])({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
    return {(module, name) for span in re.findall(r"`([^`]+)`", text)
            for module, name in reference.findall(span) if name not in FILE_SUFFIXES}


def test_every_module_attribute_in_the_readme_exists():
    references = readme_references()
    # the scan finds the references it is meant to, two in one span included
    assert {("flowlp", "linprog"), ("flowlp", "OBJECTIVE_REACHED"),
            ("flowlp", "SKIP_MARGIN"), ("demand", "Violation")} <= references
    missing = sorted(f"{module}.{name}" for module, name in references
                     if not hasattr(importlib.import_module(f"rdcn_throughput.{module}"), name))
    assert missing == []


def readme_key_set(name: str) -> set:
    """The keys README's "File formats" lists for `name`, as in
    **Topology JSON**: `{n, link_capacity, class, link_count}`."""
    match = re.search(rf"\*\*{name}\*\*: `\{{([^}}`]*)\}}`", README.read_text(encoding="utf-8"))
    assert match, f"README lists no key set for {name}"
    return {key.strip() for key in match.group(1).split(",")}


def test_readme_file_formats_list_the_emitted_keys():
    t = Topology(np.ones((4, 4), dtype=int), 1.0, "da-periodic")
    assert readme_key_set("Topology JSON") == set(t.to_json_dict())
    assert readme_key_set("Schedule JSON") == set(synthesize_schedule(t, 2, seed=0).to_json_dict())
