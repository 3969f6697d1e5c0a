package kwbench

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is a deliberately small TOML subset decoder, the size of the
// scenario grammar, so the module needs no dependency. Supported: comments,
// bare lowercase keys (a-z, 0-9, _), one-level [table] and [[array]]
// headers, and values of type string, integer, float, boolean and array.
// Everything else is refused with its line number, never misparsed:
// dotted and quoted keys, [a.b] headers, inline tables, a table given
// twice, multi-line and literal ('…') strings, dates and exotic escapes.
// Lowercase keys keep encoding/json's case-insensitive field match from
// folding two spellings of one key together. The parsed document
// round-trips through JSON into the Scenario struct, so both formats share
// one strict field set.

// parseTOML decodes data into a nested map document.
func parseTOML(data []byte) (map[string]any, error) {
	root := map[string]any{}
	arrays := map[string]bool{} // names given by [[array]] headers
	cur := root                 // the table new keys land in
	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("toml line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "[["): // array of tables
			if !strings.HasSuffix(line, "]]") {
				return nil, fail("malformed array-of-tables header %q", line)
			}
			name := strings.TrimSpace(line[2 : len(line)-2])
			if err := checkKey(name); err != nil {
				return nil, fail("%v", err)
			}
			if _, ok := root[name]; ok && !arrays[name] {
				return nil, fail("key %q is not an array of tables", name)
			}
			arrays[name] = true
			arr, _ := root[name].([]any)
			cur = map[string]any{}
			root[name] = append(arr, any(cur))
		case strings.HasPrefix(line, "["): // table
			if !strings.HasSuffix(line, "]") {
				return nil, fail("malformed table header %q", line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if err := checkKey(name); err != nil {
				return nil, fail("%v", err)
			}
			if _, dup := root[name]; dup {
				return nil, fail("table %q is already defined", name)
			}
			cur = map[string]any{}
			root[name] = cur
		default: // key = value
			key, rest, ok := strings.Cut(line, "=")
			if !ok {
				return nil, fail("expected key = value, got %q", line)
			}
			key = strings.TrimSpace(key)
			if err := checkKey(key); err != nil {
				return nil, fail("%v", err)
			}
			val, rem, err := parseValue(strings.TrimSpace(rest))
			if err != nil {
				return nil, fail("%v", err)
			}
			if strings.TrimSpace(rem) != "" {
				return nil, fail("trailing data %q after value", strings.TrimSpace(rem))
			}
			if _, dup := cur[key]; dup {
				return nil, fail("duplicate key %q", key)
			}
			cur[key] = val
		}
	}
	return root, nil
}

// checkKey accepts only a bare lowercase key, so each key names exactly one
// field: no dots, quotes or capitals.
func checkKey(key string) error {
	if key == "" {
		return fmt.Errorf("missing key")
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return fmt.Errorf("key %q is not a bare lowercase key (a-z, 0-9, _)", key)
		}
	}
	return nil
}

// stripComment removes a # comment, respecting quoted strings.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inStr {
				i++ // skip the escaped character
			}
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

// parseValue decodes one value from the front of s and returns the unread
// remainder (arrays recurse through it).
func parseValue(s string) (any, string, error) {
	if s == "" {
		return nil, "", fmt.Errorf("missing value")
	}
	switch s[0] {
	case '"':
		return parseString(s)
	case '[':
		return parseArray(s)
	case '{':
		return nil, "", fmt.Errorf("inline tables are not supported; use a [table] header")
	case '\'':
		return nil, "", fmt.Errorf("literal strings ('…') are not supported; use \"…\"")
	}
	// Bare scalar: runs to the next delimiter.
	end := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == ']' {
			end = i
			break
		}
	}
	tok := strings.TrimSpace(s[:end])
	rem := s[end:]
	switch tok {
	case "true":
		return true, rem, nil
	case "false":
		return false, rem, nil
	case "":
		return nil, "", fmt.Errorf("missing value")
	}
	if i, err := strconv.ParseInt(strings.ReplaceAll(tok, "_", ""), 10, 64); err == nil {
		return i, rem, nil
	}
	if f, err := strconv.ParseFloat(strings.ReplaceAll(tok, "_", ""), 64); err == nil {
		return f, rem, nil
	}
	return nil, "", fmt.Errorf("unsupported value %q", tok)
}

func parseString(s string) (any, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return nil, "", fmt.Errorf("dangling escape in string")
			}
			switch s[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			default:
				return nil, "", fmt.Errorf("unsupported escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return nil, "", fmt.Errorf("unterminated string")
}

func parseArray(s string) (any, string, error) {
	arr := []any{}
	rest := strings.TrimSpace(s[1:])
	for {
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated array")
		}
		if rest[0] == ']' {
			return arr, rest[1:], nil
		}
		v, rem, err := parseValue(rest)
		if err != nil {
			return nil, "", err
		}
		arr = append(arr, v)
		rest = strings.TrimSpace(rem)
		if strings.HasPrefix(rest, ",") {
			rest = strings.TrimSpace(rest[1:])
		} else if rest != "" && !strings.HasPrefix(rest, "]") {
			return nil, "", fmt.Errorf("expected ',' or ']' in array, got %q", rest)
		}
	}
}
