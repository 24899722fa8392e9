#!/bin/sh
# Compare, byte for byte, the --out files of the README's example commands
# run from this checkout and from another commit.  Usage: tools/out_bytes.sh REF
#
# Every `rotn ...` line of the README's "Command line" block runs with its
# own --out replaced by one name per command, once per precision when the
# subcommand takes --precision.  It runs from this checkout's src/ and from
# REF's, extracted with git archive into a temporary directory, in two
# output directories under the same relative names, so the headers can
# match too.  Prints "same" or "DIFFERS" per file and exits 1 if any file
# differs or was not written, 2 if the README block holds no command.
cd "$(dirname "$0")/.." || exit 2
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
repo=$(pwd)
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref" "$tmp/checkout.out" "$tmp/ref.out"
git archive "$1" src | tar -x -C "$tmp/ref" || exit 2

sed -n '/^## Command line/,/^## /p' README.md | grep '^rotn ' > "$tmp/commands"
[ -s "$tmp/commands" ] || {
    echo "$0: no 'rotn ...' line in the README's \"Command line\" block" >&2
    exit 2
}
status=0
i=0
while IFS= read -r line; do
    i=$((i + 1))
    eval "set -- $(printf '%s\n' "${line#rotn }" | sed 's/ --out [^ ]*//')"
    kind=$1
    precisions=default
    if PYTHONPATH="$repo/src" python3 -m rotn.cli "$kind" --help </dev/null \
            | grep -q -- --precision; then
        precisions="certified-fast exact-only"
    fi
    for p in $precisions; do
        name=$i-$kind-$p.out
        flag=""
        [ "$p" = default ] || flag="--precision $p"
        for side in checkout ref; do
            src=$repo/src
            [ $side = ref ] && src=$tmp/ref/src
            # exit status 1 (a failed check) still writes the file
            (cd "$tmp/$side.out" \
                && PYTHONPATH="$src" python3 -m rotn.cli "$@" $flag --out "$name" \
                    </dev/null >/dev/null 2>&1)
        done
        if cmp "$tmp/checkout.out/$name" "$tmp/ref.out/$name" >"$tmp/cmp" 2>&1; then
            echo "same     $name"
        else
            echo "DIFFERS  $name: $(sed "s|$tmp/||g; q" "$tmp/cmp")"
            status=1
        fi
    done
done < "$tmp/commands"
exit $status
