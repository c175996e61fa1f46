"""JSON files a run writes and reads (configs, stage artifacts, trees), all
written one way and refused on reading with a ValueError naming the file."""

import json


def write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str, version=None, keys=()) -> dict:
    """The JSON object at `path`, refused unless it parses, is an object,
    declares schema_version `version` (when given) and has every key of
    `keys`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # bad JSON, or bytes that are not text
            raise ValueError(f"{path}: {what} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, "
                         f"got {type(doc).__name__}")
    if version is not None and doc.get("schema_version") != version:
        raise ValueError(f"{path}: unsupported {what} schema_version "
                         f"{doc.get('schema_version')!r}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: {what} has no {key!r} key")
    return doc
