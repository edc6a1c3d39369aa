"""``python -m densediv`` and the ``densediv`` script: run ``densediv.cli``
as ``python -m densediv.cli`` does, so that numpy and the layers past
``families`` load only in the handler that runs them."""

import runpy


def main() -> None:
    """Run the CLI, which exits through SystemExit with its status."""
    runpy.run_module("densediv.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
