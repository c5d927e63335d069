(module argmin
  (provide [argmin (-> (-> any/c integer?) (and/c (listof integer?) pair?) any/c)])
  (define (argmin/acc f b a xs)
    (cond [(null? xs) a]
          [(< b (f (car xs))) (argmin/acc f a b (cdr xs))]
          [else (argmin/acc f (car xs) (f (car xs)) (cdr xs))]))
  (define (argmin f xs)
    (argmin/acc f (car xs) (f (car xs)) (cdr xs))))
