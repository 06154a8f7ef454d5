//! Hand-rolled Rust source model: a character-level mask pass (string
//! and comment stripping with raw-string, nested-block-comment and
//! lifetime handling) followed by a line/brace-level structural pass
//! that recovers function declarations, attribute/doc context,
//! `#[cfg(test)]` spans and `unsafe` sites.
//!
//! This is deliberately **not** a Rust parser: it is a small,
//! dependency-free scanner with exactly enough state tracking to be
//! reliable on this workspace's idiomatic rustfmt-formatted sources;
//! the lint fixtures in `tests/` pin the constructs it must
//! understand.

/// One scanned source file: raw lines, masked code lines (string and
/// comment contents blanked), per-line comment text, and the
/// structural model built from them.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Raw source lines.
    pub lines: Vec<String>,
    /// Masked lines: comments removed, string/char-literal contents
    /// blanked to spaces (delimiters kept), so token scans cannot be
    /// fooled by `"panic!"` inside a literal.
    pub code: Vec<String>,
    /// Comment text per line (contents after `//` / inside `/* */`),
    /// empty when the line carries no comment.
    pub comments: Vec<String>,
    /// Function declarations in source order.
    pub fns: Vec<FnDecl>,
    /// 0-based inclusive line ranges that are test code
    /// (`#[cfg(test)]` modules, `#[test]` functions).
    pub test_ranges: Vec<(usize, usize)>,
    /// `unsafe` sites (blocks, fns, impls) in source order.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// A recovered `fn` declaration.
#[derive(Debug)]
pub struct FnDecl {
    pub name: String,
    pub is_pub: bool,
    pub is_unsafe: bool,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive body span (brace to matching brace); `None`
    /// for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Attribute lines (masked text) directly above the signature.
    pub attrs: Vec<String>,
    /// Doc-comment text (`///` lines) directly above the signature.
    pub doc: String,
    /// `(name, type)` pairs of the parameter list, receivers skipped.
    pub params: Vec<(String, String)>,
}

/// What kind of `unsafe` token a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    Block,
    Fn,
    Impl,
}

/// One `unsafe` occurrence in code (never in a string or comment).
#[derive(Debug)]
pub struct UnsafeSite {
    pub line: usize,
    pub kind: UnsafeKind,
}

impl SourceFile {
    /// Scans `text` into the structural model.
    pub fn scan(rel_path: &str, text: &str) -> SourceFile {
        let (masked, comment_mask) = mask_source(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<String> = masked.lines().map(str::to_string).collect();
        let comments: Vec<String> = comment_mask.lines().map(str::to_string).collect();
        // `lines()` drops a trailing empty line difference; pad the
        // derived views so indexing by raw line number always works.
        let n = lines.len();
        let mut file = SourceFile {
            rel_path: rel_path.replace('\\', "/"),
            lines,
            code: pad_to(code, n),
            comments: pad_to(comments, n),
            fns: Vec::new(),
            test_ranges: Vec::new(),
            unsafe_sites: Vec::new(),
        };
        file.find_fns();
        file.find_test_ranges();
        file.find_unsafe_sites();
        file
    }

    /// True when 0-based `line` falls inside test code (a
    /// `#[cfg(test)]` module, a `#[test]` fn, or an integration-test
    /// file under `tests/`).
    pub fn is_test_line(&self, line: usize) -> bool {
        if self.rel_path.starts_with("tests/") || self.rel_path.contains("/tests/") {
            return true;
        }
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The innermost function whose body contains 0-based `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnDecl> {
        self.fns
            .iter()
            .filter(|f| match f.body {
                Some((lo, hi)) => lo <= line && line <= hi || f.sig_line == line,
                None => f.sig_line == line,
            })
            .min_by_key(|f| match f.body {
                Some((lo, hi)) => hi - lo,
                None => 0,
            })
    }

    /// Masked body text of `decl`, joined with newlines.
    pub fn body_text(&self, decl: &FnDecl) -> String {
        match decl.body {
            Some((lo, hi)) => self.code[lo..=hi.min(self.code.len() - 1)].join("\n"),
            None => String::new(),
        }
    }

    /// Finds every `fn` token in masked code and recovers its
    /// declaration.
    fn find_fns(&mut self) {
        let mut decls = Vec::new();
        for i in 0..self.code.len() {
            let line = self.code[i].clone();
            let Some(col) = find_token(&line, "fn") else {
                continue;
            };
            // Name: first identifier after `fn`.
            let after = &line[col + 2..];
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let prefix = &line[..col];
            let is_pub = find_token(prefix, "pub").is_some();
            let is_unsafe = find_token(prefix, "unsafe").is_some();

            let (attrs, doc) = self.context_above(i);
            let params = self.parse_params(i, col);
            let body = self.body_span(i, col);
            decls.push(FnDecl {
                name,
                is_pub,
                is_unsafe,
                sig_line: i,
                body,
                attrs,
                doc,
                params,
            });
        }
        self.fns = decls;
    }

    /// Attribute lines and doc text directly above `line` (walking up
    /// through attributes, doc comments and plain comments).
    fn context_above(&self, line: usize) -> (Vec<String>, String) {
        let mut attrs = Vec::new();
        let mut doc_lines = Vec::new();
        let mut i = line;
        while i > 0 {
            i -= 1;
            let code = self.code[i].trim();
            let raw = self.lines[i].trim();
            if raw.starts_with("///") || raw.starts_with("//!") {
                doc_lines.push(raw.trim_start_matches(['/', '!']).trim().to_string());
            } else if code.starts_with("#[") {
                attrs.push(code.to_string());
            } else if raw.starts_with("//") {
                // plain comment between attrs/docs: keep walking
            } else if code.is_empty() && raw.is_empty() {
                break;
            } else if code.is_empty() {
                // masked-out content (e.g. a string continuation): stop
                break;
            } else {
                break;
            }
        }
        doc_lines.reverse();
        attrs.reverse();
        (attrs, doc_lines.join("\n"))
    }

    /// Parses the parameter list starting at the `(` after the fn name
    /// on `sig_line` (which may wrap over several lines).
    fn parse_params(&self, sig_line: usize, fn_col: usize) -> Vec<(String, String)> {
        // Collect text from the opening paren to its match.
        let mut text = String::new();
        let mut depth = 0i32;
        let mut started = false;
        'outer: for (li, l) in self.code.iter().enumerate().skip(sig_line) {
            let start = if li == sig_line { fn_col } else { 0 };
            for c in l[start.min(l.len())..].chars() {
                match c {
                    '(' => {
                        depth += 1;
                        if depth == 1 {
                            started = true;
                            continue;
                        }
                    }
                    ')' => {
                        depth -= 1;
                        if started && depth == 0 {
                            break 'outer;
                        }
                    }
                    _ => {}
                }
                if started {
                    text.push(c);
                }
            }
            if started {
                text.push(' ');
            }
            if li > sig_line + 40 {
                break; // runaway: malformed source
            }
        }
        split_top_level(&text, ',')
            .into_iter()
            .filter_map(|p| {
                let p = p.trim();
                let (name, ty) = p.split_once(':')?;
                let name = name.trim().trim_start_matches("mut ").trim();
                if name.contains("self") || !is_ident(name) {
                    return None;
                }
                Some((name.to_string(), ty.trim().to_string()))
            })
            .collect()
    }

    /// Finds the body span of the fn declared at (`sig_line`,
    /// `fn_col`): the first `{` at paren-depth 0 after the signature,
    /// to its matching `}`. Returns `None` when a `;` closes the
    /// declaration first.
    fn body_span(&self, sig_line: usize, fn_col: usize) -> Option<(usize, usize)> {
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut body_start = None;
        for (li, l) in self.code.iter().enumerate().skip(sig_line) {
            let start = if li == sig_line { fn_col } else { 0 };
            for c in l[start.min(l.len())..].chars() {
                match c {
                    '(' | '[' => paren += 1,
                    ')' | ']' => paren -= 1,
                    ';' if paren == 0 && body_start.is_none() => return None,
                    '{' if paren == 0 => {
                        if body_start.is_none() {
                            body_start = Some(li);
                        }
                        brace += 1;
                    }
                    '}' if paren == 0 => {
                        brace -= 1;
                        if body_start.is_some() && brace == 0 {
                            return Some((body_start.unwrap_or(li), li));
                        }
                    }
                    _ => {}
                }
            }
        }
        body_start.map(|s| (s, self.code.len().saturating_sub(1)))
    }

    /// Marks `#[cfg(test)]` module spans and `#[test]` fn bodies.
    fn find_test_ranges(&mut self) {
        let mut ranges = Vec::new();
        for i in 0..self.code.len() {
            let t = self.code[i].trim();
            if !(t.starts_with("#[cfg(test)]") || t.starts_with("#[cfg(all(test")) {
                continue;
            }
            // The item below: a mod (span to matching brace) or fn.
            let mut brace = 0i32;
            let mut started = false;
            for (li, l) in self.code.iter().enumerate().skip(i) {
                for c in l.chars() {
                    match c {
                        '{' => {
                            brace += 1;
                            started = true;
                        }
                        '}' => {
                            brace -= 1;
                        }
                        ';' if !started && brace == 0 => {
                            // bodiless item (e.g. `mod tests;`)
                            ranges.push((i, li));
                            brace = i32::MIN;
                        }
                        _ => {}
                    }
                    if started && brace == 0 {
                        ranges.push((i, li));
                        brace = i32::MIN;
                    }
                    if brace == i32::MIN {
                        break;
                    }
                }
                if brace == i32::MIN {
                    break;
                }
            }
        }
        // `#[test]` fns (covers fixtures outside cfg(test) mods).
        let fn_spans: Vec<(usize, usize, usize)> = self
            .fns
            .iter()
            .filter(|f| f.attrs.iter().any(|a| a.contains("#[test]")))
            .filter_map(|f| f.body.map(|(lo, hi)| (f.sig_line, lo, hi)))
            .collect();
        for (sig, _, hi) in fn_spans {
            ranges.push((sig, hi));
        }
        ranges.sort_unstable();
        self.test_ranges = ranges;
    }

    /// Records every `unsafe` token in masked code with its kind.
    fn find_unsafe_sites(&mut self) {
        let mut sites = Vec::new();
        for (i, l) in self.code.iter().enumerate() {
            let mut search_from = 0usize;
            while let Some(col) = find_token(&l[search_from..], "unsafe") {
                let abs = search_from + col;
                let after = l[abs + "unsafe".len()..].trim_start();
                let kind = if after.starts_with("fn") {
                    UnsafeKind::Fn
                } else if after.starts_with("impl") {
                    UnsafeKind::Impl
                } else {
                    UnsafeKind::Block
                };
                sites.push(UnsafeSite { line: i, kind });
                search_from = abs + "unsafe".len();
            }
        }
        self.unsafe_sites = sites;
    }
}

fn pad_to(mut v: Vec<String>, n: usize) -> Vec<String> {
    while v.len() < n {
        v.push(String::new());
    }
    v
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

/// Splits `text` on `sep` at bracket depth 0 (parens, brackets and
/// angle brackets all tracked — enough for parameter lists).
pub fn split_top_level(text: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '<' | '{' => depth += 1,
            // Clamp at zero so a stray `>` (e.g. the `->` of an
            // `impl Fn(..) -> T` parameter type) cannot poison the
            // depth for the rest of the list.
            ')' | ']' | '>' | '}' if depth > 0 => depth -= 1,
            _ => {}
        }
        if c == sep && depth == 0 {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Finds `token` in `s` at an identifier boundary (not part of a
/// longer identifier on either side), returning its byte offset.
pub fn find_token(s: &str, token: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut from = 0;
    while let Some(pos) = s[from..].find(token) {
        let abs = from + pos;
        let before_ok = abs == 0 || {
            let c = bytes[abs - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let end = abs + token.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return Some(abs);
        }
        from = abs + token.len().max(1);
    }
    None
}

/// True when `s` contains `token` at an identifier boundary.
pub fn has_token(s: &str, token: &str) -> bool {
    find_token(s, token).is_some()
}

/// The character-level pass: returns `(masked, comment_text)`, both
/// the same shape as the input (newlines preserved). In `masked`,
/// comment bodies and string/char-literal contents become spaces; in
/// `comment_text`, everything *except* comment bodies becomes spaces.
fn mask_source(text: &str) -> (String, String) {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = text.as_bytes();
    let mut masked = String::with_capacity(text.len());
    let mut comment = String::with_capacity(text.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            masked.push('\n');
            comment.push('\n');
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    masked.push_str("  ");
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    masked.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    masked.push('"');
                    comment.push(' ');
                    i += 1;
                } else if c == 'r' && is_raw_string_start(bytes, i) {
                    let hashes = count_hashes(bytes, i + 1);
                    state = State::RawStr(hashes);
                    for _ in 0..(1 + hashes + 1) {
                        masked.push(' ');
                        comment.push(' ');
                    }
                    i += 1 + hashes + 1;
                } else if c == '\'' && is_char_literal(bytes, i) {
                    state = State::Char;
                    masked.push('\'');
                    comment.push(' ');
                    i += 1;
                } else {
                    masked.push(c);
                    comment.push(' ');
                    i += 1;
                }
            }
            State::LineComment => {
                masked.push(' ');
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    let d = depth - 1;
                    state = if d == 0 {
                        State::Code
                    } else {
                        State::BlockComment(d)
                    };
                    masked.push_str("  ");
                    comment.push_str("*/");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    masked.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else {
                    masked.push(' ');
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    masked.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    masked.push('"');
                    comment.push(' ');
                    i += 1;
                } else {
                    masked.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(bytes, i, hashes) {
                    state = State::Code;
                    for _ in 0..(1 + hashes) {
                        masked.push(' ');
                        comment.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    masked.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    masked.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    masked.push('\'');
                    comment.push(' ');
                    i += 1;
                } else {
                    masked.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
        }
    }
    (masked, comment)
}

/// `r"`, `r#"` (after checking the `r` is not part of an identifier).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1] as char;
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> usize {
    let mut n = 0;
    while bytes.get(i) == Some(&b'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(bytes: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Distinguishes a char literal from a lifetime: `'x'` and `'\n'` are
/// literals; `'a` followed by anything else is a lifetime.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}
