SELECT DISTINCT d7.pre, d4.pre, d2.pre, d0.pre
FROM doc AS d0, doc AS d1, doc AS d2, doc AS d3, doc AS d4, doc AS d5, doc AS d6, doc AS d7, doc AS d8, doc AS d9, doc AS d10, doc AS d11, doc AS d12, doc AS d13, doc AS d14, doc AS d15, doc AS d16, doc AS d17, doc AS d18, doc AS d19
WHERE d0.kind = 1
  AND d0.name = 'category'
  AND d2.kind = 1
  AND d2.name = 'item'
  AND d3.kind = 1
  AND d3.name = 'price'
  AND d4.kind = 1
  AND d4.name = 'closed_auction'
  AND d5.kind = 0
  AND d5.name = 'auction.xml'
  AND d5.pre < d4.pre
  AND d4.pre <= d5.pre + d5.size
  AND d4.pre < d3.pre
  AND d3.pre <= d4.pre + d4.size
  AND d4.level + 1 = d3.level
  AND d3.data > 500
  AND d6.kind = 0
  AND d6.name = 'auction.xml'
  AND d6.pre < d2.pre
  AND d2.pre <= d6.pre + d6.size
  AND d1.kind = 0
  AND d1.name = 'auction.xml'
  AND d1.pre < d0.pre
  AND d0.pre <= d1.pre + d1.size
  AND d7.kind = 1
  AND d7.name = 'name'
  AND d10.kind = 1
  AND d10.name = 'itemref'
  AND d4.pre < d10.pre
  AND d10.pre <= d4.pre + d4.size
  AND d4.level + 1 = d10.level
  AND d9.parent = d10.pre
  AND d9.kind = 2
  AND d9.name = 'item'
  AND d11.kind = 1
  AND d11.name = 'incategory'
  AND d13.kind = 1
  AND d13.name = 'itemref'
  AND d4.pre < d13.pre
  AND d13.pre <= d4.pre + d4.size
  AND d4.level + 1 = d13.level
  AND d12.parent = d13.pre
  AND d12.kind = 2
  AND d12.name = 'item'
  AND d14.parent = d2.pre
  AND d14.kind = 2
  AND d14.name = 'id'
  AND d12.value = d14.value
  AND d2.pre < d11.pre
  AND d11.pre <= d2.pre + d2.size
  AND d2.level + 1 = d11.level
  AND d8.parent = d11.pre
  AND d15.parent = d2.pre
  AND d15.kind = 2
  AND d15.name = 'id'
  AND d9.value = d15.value
  AND d8.kind = 2
  AND d8.name = 'category'
  AND d18.kind = 1
  AND d18.name = 'itemref'
  AND d4.pre < d18.pre
  AND d18.pre <= d4.pre + d4.size
  AND d4.level + 1 = d18.level
  AND d17.parent = d18.pre
  AND d17.kind = 2
  AND d17.name = 'item'
  AND d19.parent = d2.pre
  AND d19.kind = 2
  AND d19.name = 'id'
  AND d17.value = d19.value
  AND d16.parent = d0.pre
  AND d16.kind = 2
  AND d16.name = 'id'
  AND d8.value = d16.value
  AND d0.pre < d7.pre
  AND d7.pre <= d0.pre + d0.size
  AND d0.level + 1 = d7.level
ORDER BY d4.pre, d2.pre, d0.pre, d7.pre