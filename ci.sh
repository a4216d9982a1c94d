#!/bin/sh
# ci.sh — the exact gate CI runs; run it locally before pushing. The gate
# itself is spelled once, in the Makefile's ci target.
set -eu
cd "$(dirname "$0")"
exec make ci
