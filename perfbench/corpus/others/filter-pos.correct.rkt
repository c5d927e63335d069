(module filter-pos
  (provide [keep-pos (-> (listof integer?) (listof integer?))])
  (define (keep-pos xs)
    (if (null? xs)
        '()
        (if (> (car xs) 0)
            (cons (car xs) (keep-pos (cdr xs)))
            (keep-pos (cdr xs))))))
