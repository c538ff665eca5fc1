"""Writer shared by the golden suites: compact, diff-friendly JSON."""

import json


def dumps_goldens(document: dict) -> str:
    """``document`` as indented JSON with each item of every
    ``document["records"][key]`` list on one line."""
    header = json.dumps(
        {k: v for k, v in document.items() if k != "records"},
        indent=1, sort_keys=True,
    )
    records = ",\n".join(
        f"  {json.dumps(key)}: [\n"
        + ",\n".join(
            f"   {json.dumps(item, sort_keys=True)}" for item in items
        )
        + "\n  ]"
        for key, items in sorted(document["records"].items())
    )
    return f'{header[:-2]},\n "records": {{\n{records}\n }}\n}}\n'
