"""``python -m compatcheck``: the ``compatcheck`` command, from a checkout or an install."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
