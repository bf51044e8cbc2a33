//! A tolerant item-level parser over the token stream: structs with
//! their derives and field types, functions with their body spans and
//! enclosing impl types, and `#[cfg(test)]` regions. No expression
//! grammar — the analyses walk raw tokens inside function bodies.

use crate::lexer::{Token, TokenKind};

/// One `#[...]` attribute, flattened to its identifier list.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Every identifier appearing inside the attribute, in order
    /// (`derive(Debug, Clone)` → `["derive", "Debug", "Clone"]`).
    pub idents: Vec<String>,
    /// Line of the opening `#`.
    pub line: usize,
}

impl Attr {
    /// Whether this is `#[derive(...)]` naming `what`.
    pub fn derives(&self, what: &str) -> bool {
        self.idents.first().is_some_and(|h| h == "derive")
            && self.idents.iter().skip(1).any(|i| i == what)
    }

    /// Whether this attribute mentions `cfg` and `test` (covers
    /// `#[cfg(test)]` and `#[cfg(all(test, ...))]`).
    pub fn is_cfg_test(&self) -> bool {
        self.idents.first().is_some_and(|h| h == "cfg") && self.idents.iter().any(|i| i == "test")
    }

    /// Whether this is `#[test]`.
    pub fn is_test(&self) -> bool {
        self.idents.len() == 1 && self.idents[0] == "test"
    }
}

/// One struct (or enum) field: name and the raw type tokens.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (tuple fields get positional names `"0"`, `"1"`...).
    pub name: String,
    /// Identifiers appearing in the field's type (`Vec`, `u8`, ...).
    pub type_idents: Vec<String>,
    /// Line the field is declared on.
    pub line: usize,
}

/// One struct or enum item.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Attributes (derives among them).
    pub attrs: Vec<Attr>,
    /// Named or tuple fields; for enums, every variant's payload
    /// fields flattened together.
    pub fields: Vec<Field>,
    /// Line of the `struct`/`enum` keyword.
    pub line: usize,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One function with its body's token span.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The enclosing `impl` type name, if any (`Shard` for
    /// `impl Shard { fn lock... }`).
    pub impl_type: Option<String>,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
    /// Token index where the signature starts (at `fn`).
    pub sig_start: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn sits inside a `#[cfg(test)]` region or carries
    /// `#[test]`/`#[cfg(test)]` itself.
    pub in_test: bool,
}

/// Parsed shape of one source file.
#[derive(Debug, Default)]
pub struct FileShape {
    /// All structs and enums.
    pub structs: Vec<StructDef>,
    /// All functions (free and method).
    pub fns: Vec<FnDef>,
    /// 1-indexed line ranges (inclusive) covered by `#[cfg(test)]`
    /// items — used to exempt test code from hot-path rules.
    pub test_line_ranges: Vec<(usize, usize)>,
    /// Names of out-of-line `#[cfg(test)] mod name;` declarations: the
    /// file each names is test code from its first line to its last.
    pub test_mod_decls: Vec<String>,
}

impl FileShape {
    /// Whether a line falls inside any `#[cfg(test)]` region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.test_line_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }
}

/// Parses the item structure of one token stream.
pub fn parse(tokens: &[Token]) -> FileShape {
    parse_as(tokens, false)
}

/// [`parse`], for a file that is `test_only` as a whole — the target of
/// a `#[cfg(test)] mod name;` declaration in another file.
pub fn parse_as(tokens: &[Token], test_only: bool) -> FileShape {
    let mut shape = FileShape::default();
    if test_only {
        shape.test_line_ranges.push((1, usize::MAX));
    }
    scan_items(tokens, 0, tokens.len(), None, test_only, &mut shape);
    shape
}

/// Index of the matching closer for the opener at `open` (which must
/// be `(`, `[` or `{`), or `end` if unbalanced.
pub fn matching(tokens: &[Token], open: usize, end: usize) -> usize {
    let (o, c) = match tokens[open].kind {
        TokenKind::Punct('(') => ('(', ')'),
        TokenKind::Punct('[') => ('[', ']'),
        TokenKind::Punct('{') => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct(o) {
            depth += 1;
        } else if tokens[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// Recursive item scanner. `impl_type` is the enclosing impl's type
/// name; `in_test` marks an enclosing `#[cfg(test)]` region.
fn scan_items(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    impl_type: Option<&str>,
    in_test: bool,
    shape: &mut FileShape,
) {
    while i < end {
        // Gather attributes preceding the next item.
        let mut attrs: Vec<Attr> = Vec::new();
        while i < end && tokens[i].is_punct('#') {
            let mut j = i + 1;
            // Inner attributes (`#![...]`) configure the enclosing
            // scope; treat them like outer ones for cfg(test).
            if j < end && tokens[j].is_punct('!') {
                j += 1;
            }
            if j < end && tokens[j].is_punct('[') {
                let close = matching(tokens, j, end);
                let idents = tokens[j + 1..close]
                    .iter()
                    .filter_map(|t| t.ident().map(str::to_string))
                    .collect();
                attrs.push(Attr {
                    idents,
                    line: tokens[i].line,
                });
                i = close + 1;
            } else {
                i += 1;
            }
        }
        // Visibility and qualifiers sit between the attributes and the
        // item keyword (`pub(crate) unsafe fn ...`); skip them so the
        // attrs stay attached to the item.
        while i < end {
            if tokens[i].is_ident("pub") {
                i += 1;
                if i < end && tokens[i].is_punct('(') {
                    i = matching(tokens, i, end) + 1;
                }
            } else if tokens[i].is_ident("unsafe") || tokens[i].is_ident("async") {
                i += 1;
            } else {
                break;
            }
        }
        if i >= end {
            break;
        }
        let item_test = in_test || attrs.iter().any(|a| a.is_cfg_test() || a.is_test());

        match tokens[i].ident() {
            Some("struct") | Some("enum") | Some("union") if i + 1 < end => {
                let name = tokens[i + 1].ident().unwrap_or("").to_string();
                let line = tokens[i].line;
                // Find the body `{`, a tuple `(`, or a terminating `;`,
                // skipping generics.
                let mut j = i + 2;
                let mut fields = Vec::new();
                let mut angle = 0i32;
                while j < end {
                    match &tokens[j].kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct(';') if angle <= 0 => {
                            j += 1;
                            break;
                        }
                        TokenKind::Punct('(') if angle <= 0 => {
                            let close = matching(tokens, j, end);
                            fields = tuple_fields(&tokens[j + 1..close]);
                            for f in &mut fields {
                                f.line = tokens[j].line;
                            }
                            j = close + 1;
                            // A tuple struct still ends with `;` (skip
                            // any where clause on the way).
                            while j < end && !tokens[j].is_punct(';') {
                                j += 1;
                            }
                            j += 1;
                            break;
                        }
                        TokenKind::Punct('{') if angle <= 0 => {
                            let close = matching(tokens, j, end);
                            fields = named_fields(tokens, j + 1, close);
                            j = close + 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                shape.structs.push(StructDef {
                    name,
                    attrs,
                    fields,
                    line,
                    in_test: item_test,
                });
                i = j;
            }
            Some("fn") if i + 1 < end => {
                let name = tokens[i + 1].ident().unwrap_or("").to_string();
                let line = tokens[i].line;
                // Body opens at the first `{` outside parens/brackets.
                let mut j = i + 2;
                let mut body = None;
                while j < end {
                    match tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') => {
                            j = matching(tokens, j, end) + 1;
                        }
                        TokenKind::Punct('{') => {
                            body = Some(j);
                            break;
                        }
                        TokenKind::Punct(';') => break, // trait decl
                        _ => j += 1,
                    }
                }
                if let Some(open) = body {
                    let close = matching(tokens, open, end);
                    let fd = FnDef {
                        name,
                        impl_type: impl_type.map(str::to_string),
                        body_start: open,
                        body_end: (close + 1).min(end),
                        sig_start: i,
                        line,
                        in_test: item_test,
                    };
                    if item_test && !in_test {
                        mark_test_range(tokens, i, close, shape);
                    }
                    shape.fns.push(fd);
                    i = (close + 1).min(end);
                } else {
                    i = j + 1;
                }
            }
            Some("impl") | Some("trait") => {
                let kw = tokens[i].ident().unwrap_or("");
                // Type name: the last plain ident before `{` (after
                // `for`, if present), skipping generics.
                let mut j = i + 1;
                let mut ty: Option<String> = None;
                let mut after_for = false;
                let mut angle = 0i32;
                while j < end && !tokens[j].is_punct('{') {
                    match &tokens[j].kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Ident(id) if id == "for" && angle <= 0 => {
                            after_for = true;
                            ty = None;
                        }
                        TokenKind::Ident(id) if id == "where" && angle <= 0 => break,
                        TokenKind::Ident(id) if angle <= 0 => {
                            ty = Some(id.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let _ = after_for;
                while j < end && !tokens[j].is_punct('{') {
                    j += 1;
                }
                if j < end {
                    let close = matching(tokens, j, end);
                    if item_test && !in_test {
                        mark_test_range(tokens, i, close, shape);
                    }
                    let ty_name = if kw == "trait" {
                        tokens[i + 1].ident().map(str::to_string)
                    } else {
                        ty
                    };
                    scan_items(tokens, j + 1, close, ty_name.as_deref(), item_test, shape);
                    i = close + 1;
                } else {
                    i = j;
                }
            }
            Some("mod") if i + 1 < end => {
                let mut j = i + 2;
                while j < end && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < end && tokens[j].is_punct('{') {
                    let close = matching(tokens, j, end);
                    if item_test && !in_test {
                        mark_test_range(tokens, i, close, shape);
                    }
                    scan_items(tokens, j + 1, close, None, item_test, shape);
                    i = close + 1;
                } else {
                    if item_test {
                        if let Some(name) = tokens[i + 1].ident() {
                            shape.test_mod_decls.push(name.to_string());
                        }
                        if !in_test {
                            mark_test_range(tokens, i, j, shape);
                        }
                    }
                    i = j + 1;
                }
            }
            Some("macro_rules") => {
                // macro_rules! name { ... } — skip the whole body.
                let mut j = i + 1;
                while j < end && !tokens[j].is_punct('{') {
                    j += 1;
                }
                i = if j < end {
                    matching(tokens, j, end) + 1
                } else {
                    j
                };
            }
            Some("const") | Some("static") | Some("type") | Some("use") | Some("extern") => {
                // Skip to the terminating `;`, ignoring nested
                // brackets (array initializers, use trees).
                let mut j = i + 1;
                while j < end {
                    match tokens[j].kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            j = matching(tokens, j, end) + 1;
                        }
                        TokenKind::Punct(';') => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                i = j;
            }
            _ => i += 1,
        }
    }
}

/// Records lines `tokens[from]..=tokens[to]` as a cfg(test) region.
fn mark_test_range(tokens: &[Token], from: usize, to: usize, shape: &mut FileShape) {
    let a = tokens[from].line;
    let b = tokens[to.min(tokens.len() - 1)].line;
    shape.test_line_ranges.push((a, b));
}

/// Parses `name: Type, ...` entries between a struct body's braces.
fn named_fields(tokens: &[Token], start: usize, end: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        while i < end && tokens[i].is_punct('#') {
            let mut j = i + 1;
            if j < end && tokens[j].is_punct('[') {
                j = matching(tokens, j, end) + 1;
            }
            i = j;
        }
        if i < end && tokens[i].is_ident("pub") {
            i += 1;
            if i < end && tokens[i].is_punct('(') {
                i = matching(tokens, i, end) + 1;
            }
        }
        // Expect `name :`.
        let (name, line) = match (tokens.get(i), tokens.get(i + 1)) {
            (Some(t), Some(c)) if t.ident().is_some() && c.is_punct(':') => {
                (t.ident().unwrap_or("").to_string(), t.line)
            }
            _ => break,
        };
        i += 2;
        // Type runs to the next comma at angle/paren depth 0.
        let mut angle = 0i32;
        let mut type_idents = Vec::new();
        while i < end {
            match &tokens[i].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('(') | TokenKind::Punct('[') => {
                    for t in &tokens[i + 1..matching(tokens, i, end)] {
                        if let Some(id) = t.ident() {
                            type_idents.push(id.to_string());
                        }
                    }
                    i = matching(tokens, i, end);
                }
                TokenKind::Punct(',') if angle <= 0 => break,
                TokenKind::Ident(id) => type_idents.push(id.clone()),
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma
        fields.push(Field {
            name,
            type_idents,
            line,
        });
    }
    fields
}

/// Parses tuple-struct fields (`(A, B)`): positional names.
fn tuple_fields(tokens: &[Token]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut current: Vec<String> = Vec::new();
    for t in tokens {
        match &t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
            TokenKind::Punct(',') if angle <= 0 && paren <= 0 => {
                fields.push(Field {
                    name: fields.len().to_string(),
                    type_idents: std::mem::take(&mut current),
                    line: t.line,
                });
            }
            TokenKind::Ident(id) if id != "pub" => current.push(id.clone()),
            _ => {}
        }
    }
    if !current.is_empty() {
        fields.push(Field {
            name: fields.len().to_string(),
            type_idents: current,
            line: tokens.first().map_or(0, |t| t.line),
        });
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn shape_of(src: &str) -> FileShape {
        parse(&lex(src).tokens)
    }

    #[test]
    fn structs_carry_derives_and_fields() {
        let s = shape_of(
            "#[derive(Debug, Clone)]\npub struct Key { pub wrapped: [u8; 64], salt: Vec<u8>, n: u32 }",
        );
        assert_eq!(s.structs.len(), 1);
        let k = &s.structs[0];
        assert_eq!(k.name, "Key");
        assert!(k.attrs[0].derives("Debug") && k.attrs[0].derives("Clone"));
        assert!(!k.attrs[0].derives("Copy"));
        assert_eq!(k.fields.len(), 3);
        assert_eq!(k.fields[0].name, "wrapped");
        assert!(k.fields[0].type_idents.contains(&"u8".to_string()));
        assert!(k.fields[1].type_idents.contains(&"Vec".to_string()));
        assert!(!k.fields[2].type_idents.contains(&"u8".to_string()));
    }

    #[test]
    fn generic_fields_keep_commas_straight() {
        let s = shape_of("struct M { map: BTreeMap<u32, SectorCodec>, next: u32 }");
        assert_eq!(s.structs[0].fields.len(), 2);
        assert!(s.structs[0].fields[0]
            .type_idents
            .contains(&"SectorCodec".to_string()));
    }

    #[test]
    fn fns_know_their_impl_type() {
        let s = shape_of(
            "impl Shard { fn lock(&self) -> MutexGuard<'_, State> { self.state.lock() } }\nfn free() {}",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "lock");
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Shard"));
        assert_eq!(s.fns[1].impl_type, None);
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let s = shape_of("impl Drop for SecretBytes { fn drop(&mut self) {} }");
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("SecretBytes"));
    }

    #[test]
    fn cfg_test_regions_cover_mods_and_fns() {
        let src = "fn hot() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}";
        let s = shape_of(src);
        assert!(!s.line_in_test(1));
        assert!(s.line_in_test(4));
        let helper = s.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        assert!(!s.fns.iter().find(|f| f.name == "hot").unwrap().in_test);
    }

    #[test]
    fn out_of_line_test_mods_are_recorded_and_their_files_are_test_only() {
        let s =
            shape_of("mod a;\n#[cfg(test)]\nmod tests;\n#[cfg(test)]\nmod inline { fn f() {} }");
        assert_eq!(s.test_mod_decls, vec!["tests".to_string()]);
        let lexed = crate::lexer::lex("fn helper() { y.unwrap(); }\n");
        let whole = parse_as(&lexed.tokens, true);
        assert!(whole.line_in_test(1) && whole.fns[0].in_test);
    }

    #[test]
    fn cfg_test_on_single_fn() {
        let s = shape_of("#[cfg(test)]\nfn probe() { x.unwrap(); }");
        assert!(s.fns[0].in_test);
        assert!(s.line_in_test(2));
    }

    #[test]
    fn const_arrays_do_not_derail_items() {
        let s = shape_of("const T: [u8; 4] = [1, 2, 3, 4];\nstruct After { a: u8 }");
        assert_eq!(s.structs.len(), 1);
        assert_eq!(s.structs[0].name, "After");
    }
}
