#!/usr/bin/env bash
# gotest.sh — go test, after checking that a named -run or -fuzz pattern
# selects something. `go test -run X` passes when X matches no test, so a
# test renamed or deleted out from under a CI step that names it would
# drop out of the gate without a sound. Every top-level |-alternative of
# each -run / -fuzz pattern must list at least one test (go test -list)
# in the given packages; '^$', which selects nothing on purpose, is
# exempt. The arguments are go test's own, passed through unchanged.
#
#   scripts/gotest.sh -race -v -run 'TestA|TestB' -timeout 5m ./internal/pkg
set -euo pipefail

args=("$@")
pkgs=()
kinds=()
patterns=()
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    -run | -fuzz)
      kinds+=("${args[i]}")
      patterns+=("${args[i + 1]}")
      i=$((i + 1))
      ;;
    ./*) pkgs+=("${args[i]}") ;;
  esac
done

for k in "${!patterns[@]}"; do
  # -run also selects fuzz targets' seed corpora and examples.
  want='^(Test|Fuzz|Example)'
  [ "${kinds[k]}" = -fuzz ] && want='^Fuzz'
  IFS='|' read -ra alts <<<"${patterns[k]}"
  for alt in "${alts[@]}"; do
    [ "$alt" = '^$' ] && continue
    listed=$(go test -list "$alt" "${pkgs[@]}")
    if ! grep -qE "$want" <<<"$listed"; then
      echo "gotest.sh: ${kinds[k]} alternative '$alt' of '${patterns[k]}' selects nothing in ${pkgs[*]}" >&2
      exit 1
    fi
  done
done

exec go test "$@"
