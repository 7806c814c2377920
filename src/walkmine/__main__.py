"""``python -m walkmine``: the same command line as the ``walkmine`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
